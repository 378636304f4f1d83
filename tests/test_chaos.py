"""Unit tests for repro.chaos: plans, retry/backoff, fault application.

The end-to-end conformance suite lives in ``tests/test_chaos_scenarios.py``;
these tests pin the building blocks — plan validation and serialisation,
the retry queue's "no lost acknowledged writes" contract, the southbound
fault filter, mastership recovery, and the hardened consumers' degradation
paths.
"""

import numpy as np
import pytest

from repro.chaos import (
    ChaosController,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    RetryQueue,
    canned_plan,
    canned_plan_names,
)
from repro.compute import ComputeCluster, InjectedWorkerCrash, PartitionedDataset
from repro.controller import ControllerCluster, ReactiveForwarding
from repro.controller.mastership import MastershipService
from repro.core import AthenaDeployment
from repro.core.feature_format import AthenaFeature, FeatureScope
from repro.core.feature_manager import FeatureManager
from repro.dataplane.topologies import linear_topology
from repro.distdb import DatabaseCluster
from repro.errors import (
    AllShardsDownError,
    ChaosError,
    ControllerError,
    DatabaseError,
    ShardDownError,
)
from repro.simkernel import Simulator


def _feature(packets=10.0, ip_src="10.0.0.1"):
    return AthenaFeature(
        scope=FeatureScope.FLOW,
        switch_id=1,
        instance_id=0,
        timestamp=0.0,
        indicators={"ip_src": ip_src, "ip_dst": "10.0.0.9"},
        fields={"FLOW_PACKET_COUNT": packets, "PAIR_FLOW": 1.0},
    )


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosError, match="unknown fault kind"):
            FaultEvent(at=1.0, kind="meteor_strike", params={})

    def test_negative_time_rejected(self):
        with pytest.raises(ChaosError, match="must be >= 0"):
            FaultEvent(at=-1.0, kind="instance_down", params={"instance": 0})

    def test_missing_params_rejected(self):
        with pytest.raises(ChaosError, match="missing params"):
            FaultEvent(at=0.0, kind="sb_drop", params={"instance": 0})

    def test_unknown_params_rejected(self):
        with pytest.raises(ChaosError, match="unknown params"):
            FaultEvent(at=0.0, kind="instance_down",
                       params={"instance": 0, "vigour": 9})

    def test_bad_direction_rejected(self):
        with pytest.raises(ChaosError, match="direction"):
            FaultEvent(at=0.0, kind="sb_drop",
                       params={"instance": 0, "rate": 0.5,
                               "direction": "sideways"})

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ChaosError, match="rate"):
            FaultEvent(at=0.0, kind="sb_drop",
                       params={"instance": 0, "rate": 1.5})

    def test_negative_duration_rejected(self):
        with pytest.raises(ChaosError, match="duration"):
            FaultEvent(at=0.0, kind="shard_down",
                       params={"shard": 0, "duration": -2.0})

    def test_every_kind_has_param_spec(self):
        for kind, (required, optional) in FAULT_KINDS.items():
            assert isinstance(required, tuple), kind
            assert not set(required) & set(optional), kind

    def test_events_sorted_by_time_stably(self):
        plan = (
            FaultPlan()
            .add(5.0, "shard_down", shard=0)
            .add(1.0, "instance_down", instance=0)
            .add(5.0, "shard_down", shard=1)
        )
        assert [e.at for e in plan] == [1.0, 5.0, 5.0]
        # Same-time events keep declaration order (replay guarantee).
        assert [e.params.get("shard") for e in plan][1:] == [0, 1]

    def test_horizon_covers_durations_and_flaps(self):
        plan = (
            FaultPlan()
            .add(2.0, "shard_down", shard=0, duration=3.0)
            .add(1.0, "link_flap", a=1, b=2, down_for=0.5, times=4,
                 period=1.0)
        )
        assert plan.horizon() == pytest.approx(5.0)

    def test_json_roundtrip(self):
        plan = FaultPlan(name="p", seed=42).add(
            2.0, "sb_delay", instance=0, rate=0.3, delay=0.1, duration=4.0
        ).add(1.0, "instance_down", instance=1)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.name == "p" and clone.seed == 42
        assert [e.to_dict() for e in clone] == [e.to_dict() for e in plan]

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ChaosError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(ChaosError, match="malformed"):
            FaultPlan.from_dict({"events": [{"kind": "instance_down"}]})

    def test_save_load(self, tmp_path):
        path = str(tmp_path / "plan.json")
        plan = FaultPlan(name="disk", seed=7).add(
            1.0, "worker_crash", worker=0, count=2
        )
        plan.save(path)
        loaded = FaultPlan.load(path)
        assert loaded.name == "disk" and loaded.seed == 7
        assert loaded.events[0].params == {"worker": 0, "count": 2}

    def test_canned_plans_are_valid_and_fresh(self):
        names = canned_plan_names()
        assert "midrun-failover" in names and "noisy-southbound" in names
        for name in names:
            plan = canned_plan(name)
            assert len(plan) >= 1 and plan.name == name
        # Each call returns a fresh copy, not a shared mutable object.
        assert canned_plan("link-flap") is not canned_plan("link-flap")

    def test_unknown_canned_plan_raises(self):
        with pytest.raises(ChaosError, match="unknown canned plan"):
            canned_plan("kitchen-sink")


class TestRetryPolicy:
    def test_exponential_backoff_capped(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5)
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert policy.delay_for(2) == pytest.approx(0.2)
        assert policy.delay_for(3) == pytest.approx(0.4)
        assert policy.delay_for(4) == pytest.approx(0.5)
        assert policy.delay_for(99) == pytest.approx(0.5)

    def test_attempt_below_one_clamped(self):
        policy = RetryPolicy(base_delay=0.1)
        assert policy.delay_for(0) == policy.delay_for(1)


class _FlakyOp:
    """Raises DatabaseError for the first ``failures`` calls, then commits."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0
        self.commits = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise DatabaseError("injected")
        self.commits += 1


class TestRetryQueue:
    def test_immediate_commit(self):
        queue = RetryQueue(Simulator(), RetryPolicy(), name="t1")
        op = _FlakyOp(failures=0)
        assert queue.submit(op) is True
        assert queue.committed == 1 and queue.pending == 0

    def test_failure_buffers_and_retries_with_backoff(self):
        sim = Simulator()
        queue = RetryQueue(
            sim, RetryPolicy(base_delay=0.5, multiplier=2.0), name="t2"
        )
        op = _FlakyOp(failures=2)
        assert queue.submit(op) is False
        assert queue.pending == 1
        # First retry is armed at base_delay; it fails, re-arming at the
        # doubled delay; the second retry commits.
        sim.run(until=0.4)
        assert op.calls == 1
        sim.run(until=0.6)
        assert op.calls == 2 and queue.pending == 1
        sim.run(until=2.0)
        assert op.commits == 1 and queue.pending == 0
        assert queue.committed == 1

    def test_exhausted_budget_flags_but_never_drops(self):
        sim = Simulator()
        queue = RetryQueue(
            sim,
            RetryPolicy(max_attempts=3, base_delay=0.1, max_delay=0.2),
            name="t3",
        )
        op = _FlakyOp(failures=10 ** 6)
        queue.submit(op)
        sim.run(until=5.0)
        assert queue.exhausted == 1
        # Still buffered: the write stays acknowledged, retried at the
        # capped delay, and never discarded.
        assert queue.pending == 1
        assert op.calls > 3

    def test_flush_commits_pending_now(self):
        sim = Simulator()
        queue = RetryQueue(sim, RetryPolicy(base_delay=99.0), name="t4")
        op = _FlakyOp(failures=1)
        queue.submit(op)
        assert queue.pending == 1
        assert queue.flush() == 1
        assert queue.pending == 0 and op.commits == 1

    def test_non_retryable_errors_propagate(self):
        queue = RetryQueue(Simulator(), name="t5")

        def bad():
            raise ValueError("not a database problem")

        with pytest.raises(ValueError):
            queue.submit(bad)
        assert queue.pending == 0


class TestMastershipRecovery:
    def test_add_standby_noop_for_master_and_duplicates(self):
        service = MastershipService()
        service.assign(1, 0, standbys=[1])
        service.add_standby(1, 0)
        service.add_standby(1, 1)
        service.add_standby(1, 2)
        assert service.standbys_of(1) == [1, 2]

    def test_failover_skips_excluded_instances(self):
        service = MastershipService()
        service.assign(1, 0, standbys=[1, 2])
        assert service.failover(1, exclude={1}) == 2
        assert service.master_of(1) == 2
        # The old master joins the standby tail.
        assert service.standbys_of(1) == [1, 0]

    def test_failover_with_no_eligible_candidate_raises(self):
        service = MastershipService()
        service.assign(1, 0, standbys=[1])
        with pytest.raises(ControllerError, match="no standby"):
            service.failover(1, exclude={1})

    def test_cluster_double_failure_skips_dead_standby(self):
        topo = linear_topology(n_switches=2, hosts_per_switch=1)
        cluster = ControllerCluster(topo.network, n_instances=3)
        cluster.adopt_all()
        cluster.start(poll=False)
        cluster.fail_instance(0)
        # Instance 1 now masters everything; instance 0 is down and must
        # not be promoted when 1 fails too.
        moved = cluster.fail_instance(1)
        assert sorted(moved) == sorted(topo.network.switches)
        for dpid in topo.network.switches:
            assert cluster.mastership.master_of(dpid) == 2

    def test_recovered_instance_is_standby_then_promotable(self):
        topo = linear_topology(n_switches=2, hosts_per_switch=1)
        cluster = ControllerCluster(topo.network, n_instances=2)
        cluster.adopt_all()
        cluster.start(poll=False)
        cluster.fail_instance(0)
        cluster.recover_instance(0)
        assert 0 not in cluster.down_instances
        for dpid in topo.network.switches:
            # Recovered member waits as standby, does not reclaim.
            assert cluster.mastership.master_of(dpid) == 1
            assert 0 in cluster.mastership.standbys_of(dpid)
        cluster.fail_instance(1)
        for dpid in topo.network.switches:
            assert cluster.mastership.master_of(dpid) == 0


@pytest.fixture
def small_stack():
    topo = linear_topology(n_switches=2, hosts_per_switch=1)
    cluster = ControllerCluster(topo.network, n_instances=2)
    cluster.adopt_all()
    cluster.start(poll=False)
    forwarding = ReactiveForwarding()
    forwarding.activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
    athena.start(poll=False)
    return topo, cluster, athena


class TestFaultFilter:
    def _request(self, cluster, dpid=1):
        from repro.openflow import FlowStatsRequest, Match

        cluster.send(dpid, FlowStatsRequest(match=Match()))

    def test_drop_suppresses_delivery(self, small_stack):
        topo, cluster, athena = small_stack
        instance = cluster.instance(0)
        before = instance.messages_from_switches
        instance.set_fault_filter(lambda dpid, msg, direction: [])
        self._request(cluster)
        topo.network.sim.run(until=topo.network.sim.now + 1.0)
        # The request was dropped on the channel: no reply ever came back
        # (and replies themselves would also have been dropped).
        assert instance.messages_from_switches == before

    def test_duplicate_doubles_replies(self, small_stack):
        topo, cluster, athena = small_stack
        instance = cluster.instance(0)
        seen = []
        from repro.controller.events import MessageDirection

        def dup_to_switch(dpid, msg, direction):
            seen.append(direction)
            if direction is MessageDirection.TO_SWITCH:
                return [0.0, 0.0]
            return None

        before = instance.messages_from_switches
        instance.set_fault_filter(dup_to_switch)
        self._request(cluster)
        topo.network.sim.run(until=topo.network.sim.now + 1.0)
        # Both copies of the request elicited a reply.
        assert instance.messages_from_switches == before + 2
        assert MessageDirection.FROM_SWITCH in seen

    def test_delay_defers_delivery_on_sim_clock(self, small_stack):
        topo, cluster, athena = small_stack
        instance = cluster.instance(0)
        instance.set_fault_filter(
            lambda dpid, msg, direction: [0.5]
            if direction.value == "to_switch"
            else None
        )
        before = instance.messages_from_switches
        self._request(cluster)
        start = topo.network.sim.now
        topo.network.sim.run(until=start + 0.4)
        assert instance.messages_from_switches == before
        topo.network.sim.run(until=start + 1.0)
        assert instance.messages_from_switches == before + 1

    def test_clearing_filter_restores_normal_path(self, small_stack):
        topo, cluster, athena = small_stack
        instance = cluster.instance(0)
        instance.set_fault_filter(lambda dpid, msg, direction: [])
        instance.set_fault_filter(None)
        before = instance.messages_from_switches
        self._request(cluster)
        topo.network.sim.run(until=topo.network.sim.now + 1.0)
        assert instance.messages_from_switches == before + 1

    def test_delayed_delivery_after_mastership_move_is_dropped(
        self, small_stack
    ):
        topo, cluster, athena = small_stack
        instance = cluster.instance(0)
        instance.set_fault_filter(
            lambda dpid, msg, direction: [1.0]
            if direction.value == "to_switch"
            else None
        )
        self._request(cluster, dpid=1)
        instance.set_fault_filter(None)
        cluster.fail_instance(0)
        new_master = cluster.mastership.master_of(1)
        before = cluster.instance(new_master).messages_from_switches
        topo.network.sim.run(until=topo.network.sim.now + 2.0)
        # The in-flight copy expired with the old master instead of being
        # delivered through a connection that no longer exists.
        assert cluster.instance(new_master).messages_from_switches == before


class TestDatabaseFaults:
    def test_all_shards_down_is_typed(self):
        db = DatabaseCluster(n_shards=2, replication=1)
        db.insert_one("features", {"switch_id": 1})
        db.fail_shard(0)
        db.fail_shard(1)
        with pytest.raises(AllShardsDownError):
            db.find("features", {})
        # The typed error still reads as the generic DatabaseError.
        with pytest.raises(DatabaseError):
            db.count("features")

    def test_unreplicated_write_to_dead_home_is_typed(self):
        db = DatabaseCluster(n_shards=2, replication=1,
                             shard_key="switch_id")
        # Pick a key whose home shard we then fail.
        key = next(
            k for k in range(10) if db._write_chain(k)[0].node_id == 0
        )
        db.fail_shard(0)
        with pytest.raises(ShardDownError) as exc_info:
            db.insert_one("features", {"switch_id": key})
        assert exc_info.value.node_id == 0

    def test_replica_lag_queues_then_applies(self):
        db = DatabaseCluster(n_shards=3, replication=2,
                             shard_key="switch_id")
        lagged = 1
        db.begin_replica_lag(lagged)
        for i in range(30):
            db.insert_one("features", {"switch_id": i})
        depth = db.replica_lag_depth(lagged)
        assert depth > 0
        replicas_before = db.shards[lagged].collection(
            "features__replica"
        ).count()
        assert db.end_replica_lag(lagged) == depth
        replicas_after = db.shards[lagged].collection(
            "features__replica"
        ).count()
        assert replicas_after == replicas_before + depth
        assert db.replica_lag_depth(lagged) == 0

    def test_replica_lag_on_unknown_shard_raises(self):
        db = DatabaseCluster(n_shards=2)
        with pytest.raises(DatabaseError, match="no shard"):
            db.begin_replica_lag(9)


class TestWorkerCrashInjection:
    def test_injected_crash_raises_then_clears(self):
        cluster = ComputeCluster(n_workers=2)
        worker = cluster.workers[0]
        worker.inject_crashes(1)
        with pytest.raises(InjectedWorkerCrash):
            worker.execute(lambda x: x, 1)
        assert worker.crashes_fired == 1
        result, _ = worker.execute(lambda x: x + 1, 1)
        assert result == 2

    def test_backend_retries_crashed_task_on_another_worker(self):
        cluster = ComputeCluster(n_workers=2)
        cluster.workers[0].inject_crashes(1)
        matrix = np.arange(40.0).reshape(10, 4)
        dataset = PartitionedDataset.from_matrix(matrix, 4)
        report = cluster.run_map(
            dataset, lambda part: float(part.sum()), sum
        )
        assert report.result == pytest.approx(matrix.sum())
        assert cluster.workers[0].crashes_fired == 1
        assert report.tasks_retried >= 1

    def test_armed_crash_survives_per_job_reset(self):
        cluster = ComputeCluster(n_workers=2)
        cluster.workers[0].inject_crashes(3)
        cluster.workers[0].reset()
        assert cluster.workers[0].injected_crashes == 3


class TestFeatureWriteBuffering:
    def _manager(self):
        sim = Simulator()
        db = DatabaseCluster(n_shards=1, replication=1)
        manager = FeatureManager(
            db,
            scheduler=sim,
            retry_policy=RetryPolicy(base_delay=0.5, max_delay=1.0),
        )
        return sim, db, manager

    def test_outage_buffers_writes_and_keeps_delivering(self):
        sim, db, manager = self._manager()
        delivered = []
        from repro.core.query import Query

        manager.add_event_handler(Query(), delivered.append)
        db.fail_shard(0)
        manager.publish(_feature(packets=1.0).to_document())
        manager.publish(_feature(packets=2.0).to_document())
        assert manager.pending_writes == 2
        # Live detection still sees both features during the outage.
        assert len(delivered) == 2

    def test_buffered_writes_commit_after_recovery(self):
        sim, db, manager = self._manager()
        db.fail_shard(0)
        manager.publish(_feature().to_document())
        db.recover_shard(0)
        sim.run(until=5.0)
        assert manager.pending_writes == 0
        assert manager.count_features() == 1

    def test_flush_pending_commits_immediately(self):
        sim, db, manager = self._manager()
        db.fail_shard(0)
        manager.publish(_feature().to_document())
        db.recover_shard(0)
        assert manager.flush_pending() == 1
        assert manager.count_features() == 1

    def test_without_scheduler_failures_still_raise(self):
        db = DatabaseCluster(n_shards=1, replication=1)
        manager = FeatureManager(db)
        db.fail_shard(0)
        with pytest.raises(DatabaseError):
            manager.publish(_feature().to_document())
        assert manager.pending_writes == 0


class TestDetectorDegradation:
    def _fixture(self):
        from repro.compute import ComputeCluster as CC
        from repro.core.algorithm import GenerateAlgorithm
        from repro.core.detector_manager import DetectorManager
        from repro.core.preprocessor import GeneratePreprocessor
        from repro.core.query import GenerateQuery
        from repro.core.southbound import AttackDetector

        db = DatabaseCluster(n_shards=2, replication=1)
        manager = FeatureManager(db)
        detector = DetectorManager(manager, AttackDetector(CC(2)))
        manager.publish(_feature(packets=50.0).to_document())
        preprocessor = GeneratePreprocessor(
            normalization=None, features=["FLOW_PACKET_COUNT"]
        )
        model = detector.generate_detection_model(
            GenerateQuery(),
            preprocessor,
            GenerateAlgorithm("threshold", column=0, threshold=10.0),
        )
        return db, detector, GenerateQuery(), preprocessor, model

    def test_database_outage_degrades_instead_of_raising(self):
        db, detector, query, preprocessor, model = self._fixture()
        db.fail_shard(0)
        db.fail_shard(1)
        assert detector.poll_round(query, preprocessor, model) is None
        assert detector.degraded_rounds == 1
        assert detector.rounds_recovered == 0

    def test_empty_round_is_degraded_not_fatal(self):
        db, detector, query, preprocessor, model = self._fixture()
        from repro.core.query import GenerateQuery

        empty = GenerateQuery("FLOW_PACKET_COUNT > 1e9")
        assert detector.poll_round(empty, preprocessor, model) is None
        assert detector.degraded_rounds == 1

    def test_recovery_counted_once_per_streak(self):
        db, detector, query, preprocessor, model = self._fixture()
        db.fail_shard(0)
        db.fail_shard(1)
        detector.poll_round(query, preprocessor, model)
        detector.poll_round(query, preprocessor, model)
        assert detector.degraded_rounds == 2
        db.recover_shard(0)
        db.recover_shard(1)
        summary = detector.poll_round(query, preprocessor, model)
        assert summary is not None
        assert detector.rounds_recovered == 1
        # A healthy follow-up round does not inflate the counter.
        detector.poll_round(query, preprocessor, model)
        assert detector.rounds_recovered == 1


class TestSouthboundPollRetry:
    def test_transient_error_retried_until_success(self, small_stack):
        topo, cluster, athena = small_stack
        southbound = athena.instances[0].southbound
        real = southbound.proxy.issue_stats_requests
        failures = {"left": 2}

        def flaky(dpid, include_switch_scope=False):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise ControllerError("transient channel error")
            return real(dpid, include_switch_scope=include_switch_scope)

        southbound.proxy.issue_stats_requests = flaky
        southbound._poll_one(1, include_switch=False, attempt=1)
        topo.network.sim.run(until=topo.network.sim.now + 5.0)
        assert southbound.polls_retried == 2
        assert southbound.polls_skipped == 0
        assert failures["left"] == 0

    def test_budget_exhaustion_skips_not_raises(self, small_stack):
        topo, cluster, athena = small_stack
        southbound = athena.instances[0].southbound

        def always_fail(dpid, include_switch_scope=False):
            raise ControllerError("hard down")

        southbound.proxy.issue_stats_requests = always_fail
        southbound._poll_one(1, include_switch=False, attempt=1)
        topo.network.sim.run(until=topo.network.sim.now + 10.0)
        max_attempts = southbound.poll_retry_policy.max_attempts
        assert southbound.polls_retried == max_attempts - 1
        assert southbound.polls_skipped == 1

    def test_poll_skipped_after_mastership_moves(self, small_stack):
        topo, cluster, athena = small_stack
        southbound = athena.instances[0].southbound
        cluster.fail_instance(0)
        southbound._poll_one(1, include_switch=False, attempt=1)
        assert southbound.polls_skipped == 1


class TestChaosControllerUnit:
    def _plan(self, *events):
        plan = FaultPlan()
        for at, kind, params in events:
            plan.add(at, kind, **params)
        return plan

    def test_arm_validates_targets_before_scheduling(self, small_stack):
        topo, cluster, athena = small_stack
        bad_plans = [
            self._plan((1.0, "instance_down", {"instance": 9})),
            self._plan((1.0, "shard_down", {"shard": 99})),
            self._plan((1.0, "worker_crash", {"worker": 42})),
            self._plan((1.0, "link_down", {"a": 1, "b": 7})),
            self._plan((1.0, "partition", {"groups": [[1], []]})),
        ]
        for plan in bad_plans:
            with pytest.raises(ChaosError):
                ChaosController(athena, plan).arm()

    def test_arm_twice_raises(self, small_stack):
        topo, cluster, athena = small_stack
        chaos = ChaosController(
            athena, self._plan((1.0, "worker_crash", {"worker": 0}))
        )
        assert chaos.arm() == 1
        with pytest.raises(ChaosError, match="already armed"):
            chaos.arm()

    def test_last_live_instance_is_never_killed(self, small_stack):
        topo, cluster, athena = small_stack
        plan = self._plan(
            (1.0, "instance_down", {"instance": 0}),
            (2.0, "instance_down", {"instance": 1}),
        )
        chaos = ChaosController(athena, plan)
        chaos.arm()
        topo.network.sim.run(until=3.0)
        assert chaos.faults_injected == 1
        assert chaos.faults_skipped == 1
        assert any("last live instance" in line for line in chaos.log)

    def test_inapplicable_events_skip_not_crash(self, small_stack):
        topo, cluster, athena = small_stack
        plan = self._plan(
            (1.0, "instance_up", {"instance": 1}),       # not down
            (1.5, "shard_down", {"shard": 0}),
            (2.0, "shard_down", {"shard": 0}),           # already down
            (2.5, "shard_up", {"shard": 0}),
        )
        chaos = ChaosController(athena, plan)
        chaos.arm()
        topo.network.sim.run(until=3.0)
        assert chaos.faults_skipped == 2
        assert chaos.faults_injected == 2
        assert chaos.recoveries == 1
        assert athena.database.shards[0].up

    def test_timed_shard_outage_recovers_itself(self, small_stack):
        topo, cluster, athena = small_stack
        plan = self._plan(
            (1.0, "shard_down", {"shard": 0, "duration": 2.0})
        )
        chaos = ChaosController(athena, plan)
        chaos.arm()
        topo.network.sim.run(until=2.0)
        assert not athena.database.shards[0].up
        topo.network.sim.run(until=4.0)
        assert athena.database.shards[0].up
        assert chaos.recoveries == 1

    def test_link_flap_restores_link(self, small_stack):
        topo, cluster, athena = small_stack
        plan = self._plan(
            (1.0, "link_flap",
             {"a": 1, "b": 2, "down_for": 0.3, "times": 2, "period": 1.0})
        )
        chaos = ChaosController(athena, plan)
        chaos.arm()
        link = topo.network.link_between(1, 2)
        topo.network.sim.run(until=1.1)
        assert not link.up
        topo.network.sim.run(until=5.0)
        assert link.up
        assert chaos.recoveries == 2

    def test_partition_cuts_and_heals(self, small_stack):
        topo, cluster, athena = small_stack
        plan = self._plan(
            (1.0, "partition", {"groups": [[1], [2]], "duration": 1.0})
        )
        chaos = ChaosController(athena, plan)
        chaos.arm()
        link = topo.network.link_between(1, 2)
        topo.network.sim.run(until=1.5)
        assert not link.up
        topo.network.sim.run(until=3.0)
        assert link.up

    def test_same_seed_same_log(self, small_stack):
        plan = canned_plan("midrun-failover")
        logs = []
        for _ in range(2):
            topo = linear_topology(n_switches=2, hosts_per_switch=1)
            cluster = ControllerCluster(topo.network, n_instances=2)
            cluster.adopt_all()
            cluster.start(poll=False)
            athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
            athena.start(poll=False)
            chaos = ChaosController(athena, plan, seed=3)
            chaos.arm()
            topo.network.sim.run(until=10.0)
            logs.append(list(chaos.log))
        assert logs[0] == logs[1]

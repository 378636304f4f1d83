"""Tests for the control-plane anomaly detector app."""

import pytest

from repro.apps.control_anomaly import ControlPlaneAnomalyApp, _stddev
from repro.controller import ControllerCluster, ReactiveForwarding
from repro.core import AthenaDeployment
from repro.dataplane.packet import Packet, flow_headers
from repro.dataplane.topologies import linear_topology
from repro.ml.online import Welford
from repro.workloads.flows import FlowSpec, TrafficSchedule


class TestRunningStats:
    def test_mean_and_stddev(self):
        stats = Welford()
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            stats.push(value)
        assert stats.mean == pytest.approx(5.0)
        assert _stddev(stats) == pytest.approx(2.138, abs=0.01)

    def test_single_sample_stddev_zero(self):
        stats = Welford()
        stats.push(3.0)
        assert _stddev(stats) == 0.0


def _environment(calibration_seconds=8.0, sigma=4.0, floor=50.0):
    topo = linear_topology(n_switches=3, hosts_per_switch=2)
    cluster = ControllerCluster(topo.network, n_instances=1)
    cluster.adopt_all()
    cluster.start(poll=False)
    forwarding = ReactiveForwarding(idle_timeout=2.0)
    forwarding.activate(cluster)
    athena = AthenaDeployment(cluster, athena_poll_interval=1.0)
    athena.start()
    app = ControlPlaneAnomalyApp(
        calibration_seconds=calibration_seconds,
        sigma=sigma,
        min_rate_floor=floor,
    )
    athena.register_app(app)
    schedule = TrafficSchedule(topo.network)
    schedule.prime_arp()
    return topo, athena, app, schedule


def _background_traffic(schedule, start, duration, sport_base=30000):
    for idx in range(2):
        schedule.add_flow(
            FlowSpec(src_host="h1", dst_host="h5",
                     sport=sport_base + idx, rate_pps=8.0,
                     start=start, duration=duration, bidirectional=True)
        )


def _packet_in_flood(network, dpid, start, duration, rate):
    """Spoofed table-miss storm: unique 5-tuples straight to the switch."""
    switch = network.switches[dpid]
    n_packets = int(rate * duration)
    for i in range(n_packets):
        headers = flow_headers(
            "0a:de:ad:00:%02x:%02x" % (i // 256 % 256, i % 256),
            "0a:00:00:00:00:05",
            f"172.16.{(i >> 8) % 250}.{i % 250}",
            "10.0.0.5",
            proto=17,
            sport=1024 + i % 60000,
            dport=53,
        )
        network.sim.at(
            start + i * (duration / n_packets),
            lambda h=headers: switch.receive_packet(
                100, Packet(headers=h, size=64), network.sim.now
            ),
        )


class TestControlPlaneAnomalyApp:
    def test_no_alarms_under_baseline_traffic(self):
        topo, athena, app, schedule = _environment()
        _background_traffic(schedule, start=1.0, duration=20.0)
        topo.network.sim.run(until=24.0)
        assert app.anomalies == []

    def test_packet_in_flood_detected(self):
        topo, athena, app, schedule = _environment()
        _background_traffic(schedule, start=1.0, duration=25.0)
        _packet_in_flood(topo.network, dpid=1, start=15.0, duration=5.0,
                         rate=400.0)
        topo.network.sim.run(until=28.0)
        assert app.anomalies
        # The flooded switch alarms; downstream switches may also spike
        # (their FLOW_MOD churn is real collateral of the attack).
        assert 1 in app.anomalous_switches()
        # Detection happens after the flood starts, not during calibration.
        assert min(a["time"] for a in app.anomalies) >= 15.0
        packet_in_alarms = [
            a for a in app.anomalies if a["metric"] == "PACKET_IN_RATE"
        ]
        assert packet_in_alarms
        assert {a["switch_id"] for a in packet_in_alarms} == {1}

    def test_alerts_reach_ui(self):
        topo, athena, app, schedule = _environment()
        _background_traffic(schedule, start=1.0, duration=25.0)
        _packet_in_flood(topo.network, dpid=2, start=15.0, duration=5.0,
                         rate=400.0)
        topo.network.sim.run(until=28.0)
        assert any(
            alert["source"] == app.name for alert in athena.ui_manager.alerts
        )

    def test_profile_learned_per_switch(self):
        topo, athena, app, schedule = _environment()
        _background_traffic(schedule, start=1.0, duration=10.0)
        topo.network.sim.run(until=12.0)
        profile = app.profile_of(1)
        assert "PACKET_IN_RATE" in profile
        assert profile["PACKET_IN_RATE"]["samples"] >= 2

    def test_floor_suppresses_quiet_network_noise(self):
        # A huge relative spike that stays under the absolute floor.
        topo, athena, app, schedule = _environment(floor=1e9)
        _background_traffic(schedule, start=1.0, duration=25.0)
        _packet_in_flood(topo.network, dpid=1, start=15.0, duration=5.0,
                         rate=400.0)
        topo.network.sim.run(until=28.0)
        assert app.anomalies == []

    def test_detach_stops_delivery(self):
        topo, athena, app, schedule = _environment()
        athena.unregister_app(app.name)
        _background_traffic(schedule, start=1.0, duration=5.0)
        topo.network.sim.run(until=8.0)
        assert app._first_seen is None

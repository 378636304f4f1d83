"""Tests for the Cbench harness (Table IX / Figure 11 machinery)."""

import statistics

import pytest

from repro.cbench.harness import CbenchHarness, cpu_usage_curve, saturation_rate


@pytest.fixture(scope="module")
def harness():
    return CbenchHarness(n_switches=4, match_pool=32)


class TestThroughput:
    def test_produces_responses(self, harness):
        result = harness.run_throughput("without", duration_seconds=0.2)
        assert result.responses > 0
        assert result.responses_per_second > 0

    def test_athena_reduces_throughput(self, harness):
        """The Table IX ordering: without > with(no DB) > with.

        A single short round per mode reads the host as much as the mode
        (``without`` alone spans 16 k to 25 k responses/s from round to
        round on a shared 2-vCPU host), so the modes take turns for three
        rounds and their medians are compared."""
        modes = ("without", "with_no_db", "with")
        rates = {mode: [] for mode in modes}
        for _ in range(3):
            for mode in modes:
                result = harness.run_throughput(mode, duration_seconds=0.13)
                rates[mode].append(result.responses_per_second)
        without, no_db, with_db = (statistics.median(rates[mode]) for mode in modes)
        assert without > no_db > with_db, rates

    def test_rounds(self, harness):
        results = harness.run_rounds("without", rounds=3, duration_seconds=0.1)
        assert len(results) == 3
        assert all(r.mode == "without" for r in results)

    def test_with_mode_stores_features(self):
        harness = CbenchHarness(n_switches=2, match_pool=16)
        _net, _cluster, _responder, athena = harness._build("with")
        assert athena is not None
        assert athena.feature_manager.store_features

    def test_no_db_mode_disables_store(self):
        harness = CbenchHarness(n_switches=2, match_pool=16)
        _net, _cluster, _responder, athena = harness._build("with_no_db")
        assert not athena.feature_manager.store_features


class TestCpuUsage:
    def test_event_cost_positive_and_ordered(self, harness):
        without = harness.measure_event_cost("without", n_events=2000)
        with_athena = harness.measure_event_cost("with", n_events=2000)
        assert 0 < without < with_athena

    def test_curve_monotone_and_capped(self):
        curve = cpu_usage_curve([1e3, 1e4, 1e5, 1e7], 1e-4, n_cores=6)
        utilisations = [u for _, u in curve]
        assert utilisations == sorted(utilisations)
        assert utilisations[-1] == 100.0

    def test_saturation_rate(self):
        assert saturation_rate(1e-3, n_cores=6) == pytest.approx(6000.0)
        # Figure 11's shape: higher per-event cost saturates earlier.
        assert saturation_rate(2e-3) < saturation_rate(1e-3)


# -- the Cbench path, pinned -------------------------------------------------

#: PacketIns pushed after the harness's warm-up in every pinned run.
_PIN_EVENTS = 2000


def _cbench_run(mode: str) -> dict:
    """Push a fixed PacketIn sequence through a fresh ``_build(mode)`` (the
    untimed ``measure_event_cost`` loop) and summarise what came out."""
    import hashlib
    import json

    from repro.core.feature_manager import FEATURE_COLLECTION

    harness = CbenchHarness(n_switches=8, match_pool=128)
    network, cluster, responder, athena = harness._build(mode)
    instance = cluster.instances[0]
    switches = list(network.switches)
    for sequence in range(harness.match_pool + _PIN_EVENTS):
        instance._on_switch_message(
            harness._packet_in(switches[sequence % len(switches)], sequence)
        )
    summary = {
        "responses": responder.responses,
        "flow_mods": sum(s.flow_mod_count for s in network.switches.values()),
    }
    if athena is not None:
        database = athena.database
        stats = database.op_stats()
        docs = sorted(database.find(FEATURE_COLLECTION), key=lambda d: d["_id"])
        summary.update(
            published=athena.feature_manager.features_published,
            bytes_on_wire=database.bytes_on_wire,
            bytes_written=stats["bytes_written"],
            bytes_read=stats["bytes_read"],
            documents=hashlib.sha256(
                json.dumps(docs, separators=(",", ":")).encode()
            ).hexdigest(),
        )
    return summary


#: sha256 of ``[]``: the store holds nothing.
_NO_DOCS = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
#: mode -> the summary of its pinned run, under every runtime config:
#: cbench never polls, so no config changes what is stored.
_CBENCH_PINS = {
    "without": {"responses": 2128, "flow_mods": 2128},
    "with_no_db": {
        "responses": 2128, "flow_mods": 2128, "published": 2128,
        "bytes_on_wire": 0, "bytes_written": 0, "bytes_read": 0,
        "documents": _NO_DOCS,
    },
    "with": {
        "responses": 2128, "flow_mods": 2128, "published": 2128,
        "bytes_on_wire": 770610, "bytes_written": 1887684, "bytes_read": 0,
        "documents": "3208d95126f0e0e4fbded281d40f48b897316fee414476f509678c108d77a11f",
    },
}


class TestCbenchPin:
    @pytest.mark.parametrize("mode", sorted(_CBENCH_PINS))
    @pytest.mark.parametrize("config", ["default", "telemetry", "sketch"])
    def test_cbench_pin(self, mode, config):
        from repro import telemetry
        from repro.config import override

        if config == "default":
            assert _cbench_run(mode) == _CBENCH_PINS[mode]
            return
        with override(**{config: True}):
            try:
                if config == "telemetry":
                    telemetry.configure(enabled=True)
                assert _cbench_run(mode) == _CBENCH_PINS[mode]
            finally:
                telemetry.reset_telemetry()

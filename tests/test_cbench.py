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

"""Tests for the one runtime configuration (repro.config)."""

import dataclasses

import pytest

from repro.config import RuntimeConfig, current, from_env, override


class TestRuntimeConfig:
    def test_exactly_the_two_switches_with_off_defaults(self):
        assert [f.name for f in dataclasses.fields(RuntimeConfig)] == [
            "sketch", "telemetry",
        ]
        assert RuntimeConfig() == RuntimeConfig(False, False)
        assert from_env({}) == RuntimeConfig()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RuntimeConfig().sketch = True

    @pytest.mark.parametrize("raw", ["1", "true", "YES", " on "])
    def test_switches_accept_the_enabling_words(self, raw):
        config = from_env({"ATHENA_TELEMETRY": raw})
        assert config.telemetry and not config.sketch

    @pytest.mark.parametrize("raw", ["0", "false", "off", "", "2"])
    def test_anything_else_is_off(self, raw):
        assert not from_env({"ATHENA_SKETCH": raw}).sketch

    def test_switch_words_are_normalised_and_empty_keeps_default(self):
        assert from_env({"ATHENA_SKETCH": " On "}) == RuntimeConfig(sketch=True)
        assert from_env({"ATHENA_TELEMETRY": " "}) == RuntimeConfig()

    def test_unknown_athena_variables_are_ignored(self):
        assert from_env({"ATHENA_NO_SUCH_SWITCH": "1"}) == RuntimeConfig()


class TestOverride:
    def test_scoped_and_restored_even_on_error(self):
        before = current()
        with pytest.raises(RuntimeError):
            with override(sketch=not before.sketch) as scoped:
                assert current() is scoped
                assert scoped.sketch is (not before.sketch)
                assert scoped.telemetry is before.telemetry
                raise RuntimeError("boom")
        assert current() is before

    def test_nests(self):
        with override(telemetry=True):
            with override(sketch=True):
                assert current().telemetry and current().sketch
            assert current().telemetry and not current().sketch

    def test_unknown_field_rejected(self):
        before = current()
        with pytest.raises(TypeError):
            with override(no_such_field=False):
                pass
        assert current() is before


class TestDeploymentPin:
    """AthenaDeployment(config=...) pins the config; without it the
    deployment follows override() scopes opened after it was built."""

    @staticmethod
    def _deployment(**kwargs):
        from repro.controller import ControllerCluster
        from repro.core import AthenaDeployment
        from repro.dataplane.topologies import linear_topology

        topo = linear_topology(n_switches=2)
        cluster = ControllerCluster(topo.network, n_instances=1)
        cluster.adopt_all()
        return AthenaDeployment(cluster, **kwargs)

    def test_follows_current_config_by_default(self):
        athena = self._deployment()
        with override(sketch=True):
            assert athena.config.sketch
        with override(sketch=False):
            assert not athena.config.sketch

    def test_pinned_config_ignores_overrides(self):
        pinned = RuntimeConfig(sketch=False)
        with override(sketch=True):
            athena = self._deployment(config=pinned)
            assert athena.config is pinned
            assert not athena.config.sketch
            assert all(i.generator._config is pinned for i in athena.instances)

    def test_pinned_telemetry_is_honoured(self):
        from repro.telemetry import get_telemetry, reset_telemetry

        try:
            self._deployment(config=RuntimeConfig(telemetry=True))
            assert get_telemetry().enabled
            self._deployment(config=RuntimeConfig(telemetry=False))
            assert not get_telemetry().enabled
        finally:
            reset_telemetry()

"""The process-wide telemetry switchboard.

One :class:`Telemetry` facade bundles the metrics registry and the
tracer.  A process has a single active facade, created lazily from the
``telemetry`` field of :func:`repro.config.current` (``ATHENA_TELEMETRY``,
default **off** — the instrumented framework must cost nothing when
nobody is looking) and replaceable with :func:`configure`.

Components bind their instruments at construction time, so enable
telemetry *before* building a deployment::

    from repro import telemetry
    telemetry.configure(enabled=True)
    athena = AthenaDeployment(cluster)       # binds real instruments
    ...
    snapshot = telemetry.get_telemetry().snapshot()

Deployments register the simulated clock via
:meth:`Telemetry.set_sim_time_source`, which is what gives spans their
deterministic sim-clock durations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro import config as _config
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import Tracer


class Telemetry:
    """Metrics + tracing behind one enabled/disabled switch."""

    def __init__(
        self,
        enabled: Optional[bool] = None,
        ring_size: int = 512,
        max_label_sets: int = 64,
    ) -> None:
        self.enabled = _config.current().telemetry if enabled is None else bool(enabled)
        self.registry = MetricsRegistry(
            enabled=self.enabled, max_label_sets=max_label_sets
        )
        self.tracer = Tracer(enabled=self.enabled, ring_size=ring_size)

    def set_sim_time_source(self, source: Optional[Callable[[], float]]) -> None:
        """Register the simulated clock spans read their sim durations from."""
        self.tracer.sim_time_source = source

    def span(self, name: str) -> Any:
        """Shorthand for ``tracer.span(name)``."""
        return self.tracer.span(name)

    def snapshot(self, deterministic_only: bool = False) -> Dict[str, Any]:
        """The full telemetry state: metrics plus finished spans."""
        return {
            "enabled": self.enabled,
            "metrics": self.registry.snapshot(
                deterministic_only=deterministic_only
            ),
            "spans": self.tracer.snapshot(
                deterministic_only=deterministic_only
            ),
        }

    def reset(self) -> None:
        """Zero metrics and drop finished spans (bindings stay valid)."""
        self.registry.reset()
        self.tracer.reset()


_ACTIVE: Optional[Telemetry] = None


def get_telemetry() -> Telemetry:
    """The process's active facade (created from the current runtime
    config on first use)."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = Telemetry()
    return _ACTIVE


def configure(
    enabled: Optional[bool] = None,
    ring_size: int = 512,
    max_label_sets: int = 64,
) -> Telemetry:
    """Install a fresh facade (e.g. ``configure(enabled=True)``).

    Instruments already bound by existing components keep pointing at
    the *previous* facade — construct deployments after configuring.
    """
    global _ACTIVE
    _ACTIVE = Telemetry(
        enabled=enabled, ring_size=ring_size, max_label_sets=max_label_sets
    )
    return _ACTIVE


def reset_telemetry() -> None:
    """Drop the active facade; the next access re-reads the runtime config."""
    global _ACTIVE
    _ACTIVE = None

"""The one runtime configuration (docs/OPERATIONS.md, "Runtime configuration").

Every behaviour switch lives in one frozen :class:`RuntimeConfig`, parsed
from the ``ATHENA_*`` environment once at import; no other module under
``repro`` touches ``os.environ``.

Components consult the process's current config per batch operation or
per event, not at construction, so an :func:`override` scope around a
workload switches one run of an already built deployment; an
:class:`~repro.core.deployment.AthenaDeployment` given ``config=`` uses
that object instead.  Per-event paths read :data:`ACTIVE` directly (two
attribute loads, no call); everything else calls :func:`current`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Iterator, Mapping, Optional

_ENABLING = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class RuntimeConfig:
    """The three independently settable runtime values."""

    #: ``ATHENA_SKETCH`` — feature generation also emits the approximate,
    #: bounded-memory ``SKETCH_*`` scope (docs/SKETCH.md).
    sketch: bool = False
    #: ``ATHENA_TELEMETRY`` — the process-wide telemetry facade is created
    #: enabled (docs/TELEMETRY.md).
    telemetry: bool = False
    #: ``ATHENA_COMPUTE_BACKEND`` — execution backend of compute clusters
    #: built without an explicit one (docs/COMPUTE.md).
    compute_backend: str = "serial"


def from_env(environ: Optional[Mapping[str, str]] = None) -> RuntimeConfig:
    """Parse ``environ`` (default: the process's).  Switches are on for
    ``1`` / ``true`` / ``yes`` / ``on``; unset or empty keeps the default."""
    environ = os.environ if environ is None else environ
    values = {}
    for spec in fields(RuntimeConfig):
        raw = environ.get("ATHENA_" + spec.name.upper(), "").strip().lower()
        if raw:
            is_switch = isinstance(spec.default, bool)
            values[spec.name] = raw in _ENABLING if is_switch else raw
    return RuntimeConfig(**values)


#: The process's current config.  Rebound (never mutated) by
#: :func:`override`, so read it through the module on every use.
ACTIVE: RuntimeConfig = from_env()


def current() -> RuntimeConfig:
    """The process's current config."""
    return ACTIVE


@contextmanager
def override(**changes: Any) -> Iterator[RuntimeConfig]:
    """Replace fields of the current config for a scope (tests, the CLI).

    Yields the scoped config and restores the previous one on exit, also
    when the body raises; an unknown field name raises ``TypeError``.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = replace(previous, **changes)
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous

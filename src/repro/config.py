"""The one runtime configuration (docs/OPERATIONS.md, "Runtime configuration").

Every behaviour switch lives in one frozen :class:`RuntimeConfig`, parsed
from the ``ATHENA_*`` environment once at import; no other module under
``repro`` touches ``os.environ``.

Components consult the process's current config per batch operation or
per event, not at construction, so an :func:`override` scope around a
workload switches one run of an already built deployment; an
:class:`~repro.core.deployment.AthenaDeployment` given ``config=`` uses
that object instead.  Per-event paths take their decisions when
:func:`watch` says the config changed; everything else calls
:func:`current`.
"""

from __future__ import annotations

import os
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Iterator, Mapping, Optional

_ENABLING = ("1", "true", "yes", "on")


@dataclass(frozen=True)
class RuntimeConfig:
    """The two independently settable runtime switches."""

    #: ``ATHENA_SKETCH`` — feature generation also emits the approximate,
    #: bounded-memory ``SKETCH_*`` scope (docs/SKETCH.md).
    sketch: bool = False
    #: ``ATHENA_TELEMETRY`` — the process-wide telemetry facade is created
    #: enabled (docs/TELEMETRY.md).
    telemetry: bool = False


def from_env(environ: Optional[Mapping[str, str]] = None) -> RuntimeConfig:
    """Parse ``environ`` (default: the process's).  Switches are on for
    ``1`` / ``true`` / ``yes`` / ``on``; unset or empty keeps the default."""
    environ = os.environ if environ is None else environ
    values = {}
    for spec in fields(RuntimeConfig):
        raw = environ.get("ATHENA_" + spec.name.upper(), "").strip().lower()
        if raw:
            values[spec.name] = raw in _ENABLING
    return RuntimeConfig(**values)


#: The process's current config.  Rebound (never mutated) by
#: :func:`override`, so read it through the module on every use.
ACTIVE: RuntimeConfig = from_env()


#: Objects whose ``on_config_change()`` runs whenever :func:`override`
#: makes a config current; held weakly.
_WATCHERS: "weakref.WeakSet[Any]" = weakref.WeakSet()


def current() -> RuntimeConfig:
    """The process's current config."""
    return ACTIVE


def watch(owner: Any) -> None:
    """Call ``owner.on_config_change()`` on every config change, so an
    owner that takes its decisions once per config need not read the
    config per event.  The owner is held weakly."""
    _WATCHERS.add(owner)


def _changed() -> None:
    for owner in list(_WATCHERS):
        owner.on_config_change()


@contextmanager
def override(**changes: Any) -> Iterator[RuntimeConfig]:
    """Replace fields of the current config for a scope (tests, the CLI).

    Yields the scoped config and restores the previous one on exit, also
    when the body raises; an unknown field name raises ``TypeError``.
    """
    global ACTIVE
    previous = ACTIVE
    ACTIVE = replace(previous, **changes)
    _changed()
    try:
        yield ACTIVE
    finally:
        ACTIVE = previous
        _changed()

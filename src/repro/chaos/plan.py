"""Declarative, seedable fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultEvent` entries, each firing
at a point on the *simulated* clock.  Plans are plain data — JSON in, JSON
out — so the same schedule can be committed next to a scenario, shipped to
``repro.cli chaos``, or generated by a Hypothesis strategy.  Determinism is
the core contract (docs/CHAOS.md): a plan carries an optional ``seed`` for
its stochastic faults (southbound drop/delay/duplicate draw per-message
coins), and the same plan + seed against the same scenario must replay to a
byte-identical deterministic telemetry snapshot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ChaosError

#: kind -> (required params, optional params).  Validation happens at plan
#: construction so a malformed schedule fails before a run starts, not
#: halfway through one.
FAULT_KINDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # Controller instance crash (MastershipService failover moves every
    # mastered switch to its first standby) and rejoin-as-standby.
    "instance_down": (("instance",), ()),
    "instance_up": (("instance",), ()),
    # Database shard loss / rejoin, and injected replica lag: while the
    # lag holds, replica copies destined for the shard queue up and only
    # apply when the lag ends.
    "shard_down": (("shard",), ("duration",)),
    "shard_up": (("shard",), ()),
    "replica_lag": (("shard", "duration"), ()),
    # Data-plane link faults between two switch dpids.
    "link_down": (("a", "b"), ("duration",)),
    "link_up": (("a", "b"), ()),
    "link_flap": (("a", "b"), ("down_for", "times", "period")),
    # Cut every link crossing the two dpid groups; heal after ``duration``
    # when given.
    "partition": (("groups",), ("duration",)),
    # Compute-worker crash: the next ``count`` tasks scheduled onto the
    # worker raise, exercising the cluster's retry path.
    "worker_crash": (("worker",), ("count",)),
    # Southbound message faults on one controller instance's channels.
    "sb_drop": (("instance", "rate"), ("duration", "direction")),
    "sb_delay": (("instance", "rate", "delay"), ("duration", "direction")),
    "sb_dup": (("instance", "rate"), ("duration", "direction")),
}

_DIRECTIONS = ("both", "to_switch", "from_switch")


@dataclass(frozen=True)
class FaultEvent:
    """One fault, fired at ``at`` seconds on the simulated clock."""

    at: float
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ChaosError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(sorted(FAULT_KINDS))}"
            )
        if self.at < 0:
            raise ChaosError(f"{self.kind}: fault time must be >= 0, got {self.at}")
        required, optional = FAULT_KINDS[self.kind]
        missing = [name for name in required if name not in self.params]
        if missing:
            raise ChaosError(f"{self.kind}: missing params {missing}")
        unknown = [
            name for name in self.params if name not in required + optional
        ]
        if unknown:
            raise ChaosError(f"{self.kind}: unknown params {unknown}")
        direction = self.params.get("direction")
        if direction is not None and direction not in _DIRECTIONS:
            raise ChaosError(
                f"{self.kind}: direction must be one of {_DIRECTIONS}"
            )
        for name in ("duration", "down_for", "period", "delay"):
            value = self.params.get(name)
            if value is not None and value < 0:
                raise ChaosError(f"{self.kind}: {name} must be >= 0")
        rate = self.params.get("rate")
        if rate is not None and not 0.0 <= rate <= 1.0:
            raise ChaosError(f"{self.kind}: rate must be in [0, 1], got {rate}")

    def to_dict(self) -> Dict[str, Any]:
        return {"at": self.at, "kind": self.kind, "params": dict(self.params)}


class FaultPlan:
    """An ordered, validated schedule of fault events."""

    def __init__(
        self,
        events: Iterable[FaultEvent] = (),
        seed: Optional[int] = None,
        name: str = "",
    ) -> None:
        # Stable sort keeps same-time events in declaration order, which
        # is part of the replay guarantee.
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.at)
        self.seed = seed
        self.name = name

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def add(self, at: float, kind: str, **params: Any) -> "FaultPlan":
        """Append one event (chainable builder)."""
        self.events.append(FaultEvent(at=at, kind=kind, params=params))
        self.events.sort(key=lambda e: e.at)
        return self

    def horizon(self) -> float:
        """Latest event time plus its longest declared duration."""
        horizon = 0.0
        for event in self.events:
            span = max(
                float(event.params.get(name) or 0.0)
                for name in ("duration", "down_for", "period")
            ) if event.params else 0.0
            times = int(event.params.get("times", 1) or 1)
            horizon = max(horizon, event.at + span * max(1, times))
        return horizon

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        try:
            events = [
                FaultEvent(
                    at=float(entry["at"]),
                    kind=str(entry["kind"]),
                    params=dict(entry.get("params", {})),
                )
                for entry in data.get("events", [])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ChaosError(f"malformed fault plan: {exc}") from exc
        return cls(
            events,
            seed=data.get("seed"),
            name=str(data.get("name", "")),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChaosError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, encoding="utf-8") as handle:
            return cls.from_json(handle.read())


# -- canned plans -----------------------------------------------------------
#
# The conformance suite and ``repro.cli chaos`` share these.  They target
# the bundled chaos scenarios (repro.chaos.scenarios): instance ids 0/1,
# shards 0-2, and the s1-s2 link all exist in every scenario topology.

def _midrun_failover() -> FaultPlan:
    """Crash instance 0 mid-detection; it rejoins as a standby later."""
    return FaultPlan(name="midrun-failover").add(
        4.0, "instance_down", instance=0
    ).add(8.0, "instance_up", instance=0)


def _shard_loss() -> FaultPlan:
    """Lose a shard during the feature-write window, plus replica lag."""
    return (
        FaultPlan(name="shard-loss")
        .add(3.0, "shard_down", shard=0, duration=3.5)
        .add(3.5, "replica_lag", shard=1, duration=2.0)
    )


def _link_flap() -> FaultPlan:
    """Flap the s1-s2 link three times while traffic is flowing."""
    return FaultPlan(name="link-flap").add(
        3.0, "link_flap", a=1, b=2, down_for=0.4, times=3, period=1.5
    )


def _total_db_outage() -> FaultPlan:
    """Every shard down at once — the retry queues must carry the writes."""
    return (
        FaultPlan(name="total-db-outage")
        .add(3.0, "shard_down", shard=0, duration=3.0)
        .add(3.0, "shard_down", shard=1, duration=3.0)
        .add(3.0, "shard_down", shard=2, duration=3.0)
    )


def _noisy_southbound() -> FaultPlan:
    """Drop, delay, and duplicate southbound messages on instance 0."""
    return (
        FaultPlan(name="noisy-southbound", seed=13)
        .add(2.0, "sb_drop", instance=0, rate=0.1, duration=4.0)
        .add(2.0, "sb_delay", instance=0, rate=0.2, delay=0.05, duration=4.0)
        .add(2.0, "sb_dup", instance=0, rate=0.1, duration=4.0)
    )


_CANNED = {
    "midrun-failover": _midrun_failover,
    "shard-loss": _shard_loss,
    "link-flap": _link_flap,
    "total-db-outage": _total_db_outage,
    "noisy-southbound": _noisy_southbound,
}


def canned_plan_names() -> List[str]:
    return sorted(_CANNED)


def canned_plan(name: str) -> FaultPlan:
    """A fresh copy of one of the bundled fault plans."""
    factory = _CANNED.get(name)
    if factory is None:
        raise ChaosError(
            f"unknown canned plan {name!r}; known: {', '.join(canned_plan_names())}"
        )
    return factory()

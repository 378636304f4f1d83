"""Controller event bus and event types.

Controller subsystems and applications communicate through a synchronous
publish/subscribe bus, mirroring ONOS's event dispatch.  Athena's southbound
interface subscribes to the same bus (plus raw message taps) to observe
control-plane behaviour without modifying the subsystems themselves.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, DefaultDict, Dict, List, Optional, Tuple, Type

from repro.openflow.messages import (
    FlowRemoved,
    OpenFlowMessage,
    PacketIn,
    PortStatus,
    StatsReply,
)


class MessageDirection(Enum):
    """Direction of an OpenFlow message relative to the controller."""

    FROM_SWITCH = "from_switch"
    TO_SWITCH = "to_switch"


@dataclass
class ControllerEvent:
    """Base event: where and when it happened."""

    instance_id: int = 0
    dpid: int = 0
    time: float = 0.0


@dataclass
class PacketInEvent(ControllerEvent):
    message: PacketIn = None  # type: ignore[assignment]


@dataclass
class FlowRemovedEvent(ControllerEvent):
    message: FlowRemoved = None  # type: ignore[assignment]


@dataclass
class PortStatusEvent(ControllerEvent):
    message: PortStatus = None  # type: ignore[assignment]


@dataclass
class StatsEvent(ControllerEvent):
    """A statistics reply, tagged with whether Athena's poller requested it."""

    message: StatsReply = None  # type: ignore[assignment]
    athena_marked: bool = False


@dataclass
class HostEvent(ControllerEvent):
    """A host was discovered or moved."""

    mac: str = ""
    ip: Optional[str] = None
    port: int = 0


@dataclass
class TopologyEvent(ControllerEvent):
    """A link or switch changed state."""

    kind: str = "link"
    up: bool = True
    port: int = 0


class EventBus:
    """Synchronous type-keyed publish/subscribe dispatcher."""

    def __init__(self) -> None:
        self._listeners: DefaultDict[type, List[Callable]] = defaultdict(list)
        #: event type -> its delivery tuple, built on first publish and
        #: dropped whenever a subscription changes.
        self._delivery: Dict[type, Tuple[Callable, ...]] = {}

    def subscribe(self, event_type: Type[ControllerEvent], listener: Callable) -> None:
        # Idempotent: subscribing the same listener twice (e.g. both a
        # controller instance and an app wiring up the same handler) must
        # not double its deliveries.
        listeners = self._listeners[event_type]
        if listener not in listeners:
            listeners.append(listener)
            self._delivery.clear()

    def unsubscribe(self, event_type: Type[ControllerEvent], listener: Callable) -> None:
        if listener in self._listeners.get(event_type, []):
            self._listeners[event_type].remove(listener)
            self._delivery.clear()

    def _delivery_for(self, event_type: type) -> Tuple[Callable, ...]:
        # Walk the event's class hierarchy so base-type subscriptions see
        # derived events, but deliver to each listener at most once even
        # if it subscribed at several levels (concrete + base type).
        # Equality, not identity: bound methods are re-created per access,
        # so ``instance.handler`` subscribed twice compares == but not is.
        delivered: List[Callable] = []
        for cls in event_type.__mro__:
            if cls is object:
                break
            for listener in self._listeners.get(cls, []):
                if listener not in delivered:
                    delivered.append(listener)
        delivery = self._delivery[event_type] = tuple(delivered)
        return delivery

    def publish(self, event: ControllerEvent) -> None:
        # The delivery tuple is fixed *before* any listener runs:
        # subscribers added mid-dispatch (e.g. a StreamingPipeline attaching
        # while a round's events are flowing) only clear the cache, so they
        # are deferred until the next event and the set of listeners an
        # event reaches never depends on handler side-effect ordering.
        # Unsubscribing mid-dispatch likewise does not retract a delivery
        # already fixed for this event.
        delivery = self._delivery.get(type(event))
        if delivery is None:
            delivery = self._delivery_for(type(event))
        for listener in delivery:
            listener(event)

    def listener_count(self, event_type: Type[ControllerEvent]) -> int:
        return len(self._listeners.get(event_type, []))

"""The discrete-event simulator loop.

A :class:`Simulator` owns a :class:`~repro.simkernel.clock.SimClock` and an
:class:`~repro.simkernel.events.EventQueue`.  Components schedule callbacks
(absolute via :meth:`Simulator.at` or relative via :meth:`Simulator.after`)
and the loop fires them in timestamp order, advancing the clock as it goes.
"""

# athena-lint: hot-path

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SimulationError
from repro.simkernel.clock import SimClock
from repro.simkernel.events import Event, EventQueue


class Simulator:
    """Deterministic discrete-event loop shared by the whole SDN substrate."""

    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self._queue = EventQueue()
        self._running = False
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of live events waiting in the queue."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Total number of events fired since construction."""
        return self._processed

    def at(self, when: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at absolute simulated time ``when``."""
        if when < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at {when} before now={self.clock.now}"
            )
        return self._queue.push(when, action)

    def after(self, delay: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self._queue.push(self.clock.now + delay, action)

    def every(
        self,
        interval: float,
        action: Callable[[], None],
        until: Optional[float] = None,
    ) -> Event:
        """Schedule ``action`` periodically.

        Every occurrence re-arms the same handle, so cancelling the
        returned handle at any time stops the whole series.
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval: {interval}")

        def fire() -> None:
            action()
            next_time = self.clock.now + interval
            if not handle.cancelled and (until is None or next_time <= until):
                self._queue.rearm(handle, next_time)

        handle = self.after(interval, fire)
        return handle

    def step(self) -> bool:
        """Fire the earliest event.  Returns ``False`` when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self.clock.advance_to(event.time)
        event.action()
        self._processed += 1
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the loop until the queue drains, ``until`` passes, or
        ``max_events`` fire.  Returns the number of events fired by this call.
        """
        if self._running:
            raise SimulationError("simulator loop is not reentrant")
        self._running = True
        fired = 0
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    # Drain time up to the horizon without firing the event.
                    self.clock.advance_to(until)
                    break
                if not self.step():
                    break
                fired += 1
        finally:
            self._running = False
        return fired

"""Event primitives for the discrete-event kernel.

Events carry a firing time, an insertion sequence number (for stable FIFO
ordering among simultaneous events) and a zero-argument callback.  The queue
is a binary heap of ``(time, seq, event)`` tuples, so ``heapq`` orders it
with C-level tuple comparisons; ``seq`` is unique, so the event itself is
never compared.
"""

# athena-lint: hot-path

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback's handle.

    Cancelled events stay in the heap but are skipped when popped.
    """

    __slots__ = ("time", "seq", "action", "cancelled")

    def __init__(self, time: float, seq: int, action: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the scheduler discards it instead of firing."""
        self.cancelled = True


class EventQueue:
    """A time-ordered queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for _time, _seq, event in self._heap if not event.cancelled)

    def push(self, time: float, action: Callable[[], None]) -> Event:
        """Schedule ``action`` at simulated ``time`` and return its handle."""
        seq = next(self._counter)
        event = Event(time, seq, action)
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def rearm(self, event: Event, time: float) -> None:
        """Schedule an already-fired ``event`` again at ``time``, keeping
        its handle (and so its cancellation) for the next firing."""
        event.time = time
        event.seq = seq = next(self._counter)
        heapq.heappush(self._heap, (time, seq, event))

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[2]
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the earliest live event, if any."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

"""Wall- and CPU-clock access for measurement code.

This module is the one sanctioned home for duration clocks outside
``simkernel``: athena-lint's ATH501
flags direct ``time.perf_counter()`` / ``time.process_time()`` calls
anywhere else, so every stopwatch in the framework routes through here
and stays auditable.  These clocks measure *how long real computation
took* — they never feed simulated timestamps (that is ``SimClock``'s
job), which is why using them cannot perturb a deterministic run.
"""

from __future__ import annotations

import time as _time
from typing import Callable


def wall_now() -> float:
    """Monotonic wall-clock seconds (duration measurement only)."""
    return _time.perf_counter()


def cpu_now() -> float:
    """Process CPU seconds (the Figure 11 service-demand clock)."""
    return _time.process_time()


class Stopwatch:
    """A started stopwatch over one of the duration clocks.

    >>> sw = Stopwatch()
    >>> ...work...
    >>> sw.elapsed()  # seconds since construction (or last restart)
    """

    __slots__ = ("_clock", "_started")

    def __init__(self, clock: Callable[[], float] = wall_now) -> None:
        self._clock = clock
        self._started = clock()

    def elapsed(self) -> float:
        """Seconds since the stopwatch (re)started."""
        return self._clock() - self._started

    def restart(self) -> float:
        """Reset the start point; returns the lap just completed."""
        now = self._clock()
        lap = now - self._started
        self._started = now
        return lap
